"""Particle filtering with the locally optimal importance density.

Only the voltage coordinate is observed, so conditioning the Gaussian state
prediction on y_k is a rank-1 update: the proposal covariance equals the
process covariance except in the voltage entry, and the incremental particle
weight is the one-step predictive density N(y_k; f_v(x_{k-1}), var_v +
sigma_y^2), independent of the proposed particle.  Everything is vectorized
over particles; results for a given seed do not depend on how callers
distribute work across processes.
"""

from dataclasses import dataclass
import math

import numpy as np

from .model import (
    MorrisLecarParams,
    NoiseConfig,
    SynapticParams,
    clamp_state,
    ml_transition2,
    ml_transition4,
    n_inf,
    process_noise_cov2,
    process_noise_cov4,
)
from .seeding import as_seed_sequence
from .simulate import Trace

__all__ = [
    "ParticleCloud",
    "FilterOutput",
    "FilterDivergence",
    "optimal_proposal_moments",
    "predictive_likelihood",
    "resample",
    "mmse_estimate",
    "effective_sample_size",
    "pf_step",
    "run_filter",
    "make_transition",
    "initial_cov_diag",
]

_LOG_2PI = math.log(2.0 * math.pi)


class FilterDivergence(RuntimeError):
    """All particle weights collapsed to zero (or became non-finite)."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"particle weights degenerate at step {step}")


@dataclass
class ParticleCloud:
    """Weighted particle set: ``states`` (n, d) and normalized ``weights`` (n,)."""

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.states.ndim != 2 or len(self.states) != len(self.weights):
            raise ValueError("states must be (n, d) with one weight per particle")
        if abs(self.weights.sum() - 1.0) > 1e-9 or (self.weights < 0).any():
            raise ValueError("weights must be nonnegative and sum to 1")

    @property
    def n_particles(self):
        return len(self.weights)


@dataclass
class FilterOutput:
    """Per-step filter summaries over a whole trace.

    ``estimates`` are posterior-mean states (T, d) computed from the weighted
    cloud before resampling, ``ess`` the effective sample sizes and
    ``log_predictive`` the per-step log predictive increments
    log p(y_k | y_{1:k-1}); their sum is the log marginal likelihood.
    """

    t_s: float
    estimates: np.ndarray
    ess: np.ndarray
    log_predictive: np.ndarray
    n_particles: int

    @property
    def log_likelihood(self):
        return float(self.log_predictive.sum())

    @property
    def n_steps(self):
        return len(self.estimates)

    @property
    def times_ms(self):
        return self.t_s * np.arange(1, self.n_steps + 1)


def _as_cov_diag(sigma_x, dim):
    """The process covariance, which is diagonal, as its length-d diagonal."""
    sigma_x = np.asarray(sigma_x, dtype=float)
    if sigma_x.shape != (dim,):
        raise ValueError("sigma_x must be the length-d diagonal of the process covariance")
    return sigma_x


def optimal_proposal_moments(f_val, y, sigma_x, sigma_y2):
    """Gaussian proposal conditioned on the voltage observation.

    Parameters
    ----------
    f_val : array_like, (d,) or (n, d)
        Deterministic transition applied to the previous particle(s).
    y : float
        Voltage observation at the current step.
    sigma_x : array_like, (d,)
        Diagonal of the process-noise covariance.
    sigma_y2 : float
        Observation-noise variance (must be positive).

    Returns
    -------
    (means, cov) : means matches ``f_val`` in shape, cov is (d, d).
    """
    if sigma_y2 <= 0:
        raise ValueError("sigma_y2 must be positive")
    f_val = np.asarray(f_val, dtype=float)
    dim = f_val.shape[-1]
    diag = _as_cov_diag(sigma_x, dim)
    if (diag <= 0).any():
        raise ValueError("sigma_x is not invertible")
    prop_diag = diag.copy()
    prop_diag[0] = diag[0] * sigma_y2 / (diag[0] + sigma_y2)
    means = f_val.copy()
    means[..., 0] = prop_diag[0] * (f_val[..., 0] / diag[0] + y / sigma_y2)
    return means, np.diag(prop_diag)


def predictive_likelihood(f_val, y, sigma_x, sigma_y2):
    """One-step predictive density N(y; f_v, var_v + sigma_y2) per particle.

    With the optimal importance density this is exactly the incremental
    particle weight, and it depends only on the previous particle through
    ``f_val``.
    """
    return np.exp(_log_predictive(np.asarray(f_val, dtype=float), y, sigma_x, sigma_y2))


def _log_predictive(f_val, y, sigma_x, sigma_y2):
    s_pred = _as_cov_diag(sigma_x, f_val.shape[-1])[0] + sigma_y2
    if s_pred <= 0:
        raise ValueError("predictive variance must be positive")
    resid = y - f_val[..., 0]
    # an absurd residual overflows to -inf, which pf_step turns into a
    # divergence error rather than a warning
    with np.errstate(over="ignore"):
        return -0.5 * (_LOG_2PI + math.log(s_pred)) - resid * resid / (2.0 * s_pred)


def effective_sample_size(weights):
    """1 / sum(w_i^2); equals n for uniform weights, 1 for a degenerate set."""
    weights = np.asarray(weights, dtype=float)
    return 1.0 / float(weights @ weights)


def mmse_estimate(cloud: ParticleCloud):
    """Posterior-mean state estimate, sum_i w_i x_i."""
    return cloud.weights @ cloud.states


def resample(cloud: ParticleCloud, seed=None):
    """Systematic resampling; returns an equally weighted cloud.

    Uses a single uniform offset and n evenly spaced points, so a cloud that
    is already equally weighted is reproduced particle-for-particle.
    ``seed`` may be an int or a Generator (which is advanced).
    """
    rng = np.random.default_rng(seed)
    n = cloud.n_particles
    points = (rng.random() + np.arange(n)) / n
    cdf = np.cumsum(cloud.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, points, side="right")
    return ParticleCloud(cloud.states[idx], np.full(n, 1.0 / n))


def pf_step(cloud: ParticleCloud, y, sigma_x, sigma_y2, transition, seed=None,
            resample_now=True, constrain=None):
    """Advance the particle filter by one observation.

    Order of operations: propagate through ``transition``, draw from the
    optimal proposal, accumulate weights with the predictive increments,
    compute the log predictive and the posterior-mean estimate from the
    weighted cloud, then (optionally) resample.  ``constrain``, when given,
    is applied in place to the freshly proposed states (e.g.
    :func:`neurosmc.model.clamp_state` to clip them to physical ranges).

    Returns ``(new_cloud, log_pred_increment, estimate)``.  Raises
    :class:`FilterDivergence` when every weight underflows to zero.
    """
    rng = np.random.default_rng(seed)
    f_val = transition(cloud.states)
    means, cov = optimal_proposal_moments(f_val, y, sigma_x, sigma_y2)
    proposed = means + rng.standard_normal(means.shape) * np.sqrt(np.diag(cov))
    if constrain is not None:
        constrain(proposed)

    log_zeta = _log_predictive(f_val, y, sigma_x, sigma_y2)
    with np.errstate(divide="ignore"):
        log_w = np.log(cloud.weights) + log_zeta
    top = np.max(log_w)
    if not np.isfinite(top):
        raise FilterDivergence(None)
    shifted = np.exp(log_w - top)
    total = shifted.sum()
    log_pred = top + math.log(total)
    weights = shifted / total

    new_cloud = ParticleCloud(proposed, weights)
    estimate = mmse_estimate(new_cloud)
    if resample_now:
        new_cloud = resample(new_cloud, rng)
    return new_cloud, log_pred, estimate


def make_transition(p: MorrisLecarParams, nc: NoiseConfig, s: SynapticParams = None):
    """Deterministic one-step map at the nominal applied current."""
    if s is None:
        return lambda x: ml_transition2(x, nc.i_o, p, nc.t_s)
    return lambda x: ml_transition4(x, nc.i_o, p, s, nc.t_s)


def initial_cov_diag(sigma_v, sigma_n, s: SynapticParams = None):
    """Diagonal covariance of the initial particle cloud.

    ``sigma_v`` and ``sigma_n`` are the voltage and gating standard
    deviations; tracked conductances spread by their OU stationary sigmas,
    floored at 1e-6 so that the cloud never starts degenerate.
    """
    diag = [sigma_v**2, sigma_n**2]
    if s is not None:
        diag += [max(s.sigma_e, 1e-6) ** 2, max(s.sigma_i, 1e-6) ** 2]
    return np.array(diag)


def _default_init(obs0, p, s, x0_mean, x0_cov):
    if x0_mean is None:
        base = [obs0, float(n_inf(obs0, p))]
        if s is not None:
            base += [s.g_e0, s.g_i0]
        x0_mean = np.array(base)
    else:
        x0_mean = np.asarray(x0_mean, dtype=float)
    x0_cov = initial_cov_diag(1.0, 0.05, s) if x0_cov is None else \
        np.asarray(x0_cov, dtype=float)
    return x0_mean, x0_cov


def run_filter(obs: Trace, p: MorrisLecarParams, nc: NoiseConfig,
               s: SynapticParams = None, n_particles=500, seed=0,
               resample_policy="always", ess_threshold=0.5,
               x0_mean=None, x0_cov=None, sigma_v=None):
    """Filter a full observation trace.

    The filter model uses the nominal applied current ``nc.i_o`` and the
    measurement variance ``nc.sigma_y**2`` (not whatever noise produced the
    trace).  The voltage process variance is rebuilt each step around the
    previous posterior-mean voltage, unless ``sigma_v`` pins it to a constant.

    ``resample_policy`` is ``"always"`` (after every step) or ``"ess"``
    (only when the effective sample size drops below ``ess_threshold * n``).
    The initial cloud is drawn from N(x0_mean, diag(x0_cov)); by default the
    mean is read off the first observation with the gating variable at
    steady state, and the covariance is ``initial_cov_diag(1.0, 0.05, s)``.

    Returns a :class:`FilterOutput`.
    """
    if obs.observations is None:
        raise ValueError("trace has no observations; call observe() first")
    if n_particles < 2:
        raise ValueError("n_particles must be at least 2")
    if resample_policy not in ("always", "ess"):
        raise ValueError("resample_policy must be 'always' or 'ess'")
    if nc.sigma_y <= 0:
        raise ValueError("filter requires positive observation noise sigma_y")
    sigma_y2 = nc.sigma_y**2
    if sigma_v is None and nc.sigma_i_app == 0.0 and nc.sigma_g_l == 0.0:
        raise ValueError("voltage process noise is zero; set sigma_v or noise levels")
    if sigma_v is not None and sigma_v <= 0:
        raise ValueError("sigma_v must be positive")
    if nc.sigma_n <= 0:
        raise ValueError("filter requires positive gating noise sigma_n")

    y = np.asarray(obs.observations, dtype=float)
    n_steps = len(y)
    transition = make_transition(p, nc, s)
    dim = 2 if s is None else 4

    rng = np.random.default_rng(as_seed_sequence(seed))
    x0_mean, x0_cov = _default_init(y[0], p, s, x0_mean, x0_cov)
    if x0_mean.shape != (dim,):
        raise ValueError(f"x0_mean must have shape ({dim},)")
    if x0_cov.shape != (dim,):
        raise ValueError(f"x0_cov must be the length-{dim} diagonal of the initial covariance")
    init = x0_mean + rng.standard_normal((n_particles, dim)) * np.sqrt(x0_cov)
    clamp_state(init)
    cloud = ParticleCloud(init, np.full(n_particles, 1.0 / n_particles))

    cov_fn = (lambda v: process_noise_cov2(v, nc, p)) if s is None else \
             (lambda v: process_noise_cov4(v, nc, p, s))
    estimates = np.empty((n_steps, dim))
    ess_series = np.empty(n_steps)
    log_pred = np.empty(n_steps)
    v_hat = float(x0_mean[0])
    for k in range(n_steps):
        sigma_x = cov_fn(v_hat)
        if sigma_v is not None:
            sigma_x[0] = sigma_v * sigma_v
        if (sigma_x <= 0).any():
            raise ValueError("process-noise covariance must be positive definite")
        try:
            cloud, lp, est = pf_step(cloud, y[k], sigma_x, sigma_y2, transition,
                                     rng, resample_now=False, constrain=clamp_state)
        except FilterDivergence as err:
            raise FilterDivergence(k + 1, f"particle weights degenerate at step {k + 1}") from err
        ess_k = effective_sample_size(cloud.weights)
        if resample_policy == "always" or ess_k < ess_threshold * n_particles:
            cloud = resample(cloud, rng)
        estimates[k] = est
        ess_series[k] = ess_k
        log_pred[k] = lp
        v_hat = est[0]

    return FilterOutput(t_s=obs.t_s, estimates=estimates, ess=ess_series,
                        log_predictive=log_pred, n_particles=n_particles)
