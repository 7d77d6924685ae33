"""Particle marginal Metropolis-Hastings with robust adaptive proposals.

The target of the chain is the parameter posterior; its unnormalized
log-density is estimated by a fresh particle-filter run per proposal, and the
chain works with the energy

    phi(theta) = -log prior(theta) - log p(y_{1:T} | theta)

so smaller is better.  The random-walk proposal covariance factor S is
adapted toward a target acceptance rate with rank-one updates whose step
size decays like j^-gamma (robust adaptive Metropolis).
"""

from dataclasses import dataclass, fields
import logging
import math

import numpy as np

from .filtering import FilterDivergence, FilterOutput, run_filter
from .model import MorrisLecarParams, NoiseConfig, SynapticParams
from .seeding import derive_seed
from .simulate import Trace

__all__ = [
    "ParameterSpace",
    "McmcConfig",
    "Chain",
    "apply_parameters",
    "energy",
    "ram_step",
    "run_pmcmc",
    "point_estimates",
]

logger = logging.getLogger(__name__)

# the model fields a chain may sample, by owning object; the sampling
# interval t_s is fixed by the recording, so it is never sampled
_MODEL_FIELDS = tuple(f.name for f in fields(MorrisLecarParams))
_NOISE_FIELDS = tuple(f.name for f in fields(NoiseConfig) if f.name != "t_s")
_SYN_FIELDS = tuple(f.name for f in fields(SynapticParams))


@dataclass(frozen=True)
class ParameterSpace:
    """Named box of sampled parameters with a flat prior inside.

    ``names`` picks which model/noise/synaptic fields the chain moves;
    ``sigma_v`` is also accepted and pins the filter's voltage process
    standard deviation directly.  The prior is uniform on the box
    ``[lower, upper]`` (log-density 0 inside, -inf outside).
    """

    names: tuple
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        k = len(self.names)
        if self.lower.shape != (k,) or self.upper.shape != (k,):
            raise ValueError("lower/upper must match names in length")
        if (self.lower >= self.upper).any():
            raise ValueError("each lower bound must be below its upper bound")
        known = set(_MODEL_FIELDS) | set(_NOISE_FIELDS) | set(_SYN_FIELDS) | {"sigma_v"}
        for name in self.names:
            if name not in known:
                raise ValueError(f"unknown parameter name: {name}")

    @property
    def dim(self):
        return len(self.names)

    def contains(self, theta):
        theta = np.asarray(theta, dtype=float)
        return bool((theta >= self.lower).all() and (theta <= self.upper).all())

    def log_prior(self, theta):
        return 0.0 if self.contains(theta) else -math.inf


def apply_parameters(space: ParameterSpace, theta, p: MorrisLecarParams,
                     nc: NoiseConfig, s: SynapticParams = None):
    """Overlay a theta vector onto the base model objects.

    Returns ``(p, nc, s, sigma_v)`` where ``sigma_v`` is the direct voltage
    process-noise override (or None when the space does not sample it).
    """
    theta = np.asarray(theta, dtype=float)
    p_kw, nc_kw, s_kw = {}, {}, {}
    sigma_v = None
    for name, value in zip(space.names, theta):
        value = float(value)
        if name == "sigma_v":
            sigma_v = value
        elif name in _MODEL_FIELDS:
            p_kw[name] = value
        elif name in _NOISE_FIELDS:
            nc_kw[name] = value
        else:
            if s is None:
                raise ValueError(f"parameter {name} needs synaptic params in the model")
            s_kw[name] = value
    if p_kw:
        p = p.replace(**p_kw)
    if nc_kw:
        nc = nc.replace(**nc_kw)
    if s_kw:
        s = s.replace(**s_kw)
    return p, nc, s, sigma_v


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, initial point and proposal-adaptation settings.

    ``sigma0`` is the initial proposal factor: a scalar, a per-coordinate
    diagonal, or a full lower-triangular matrix.  ``gamma`` in (0.5, 1]
    controls the adaptation decay j^-gamma and ``accept_target`` the
    acceptance rate the adaptation steers toward.
    """

    n_iters: int
    theta0: np.ndarray
    sigma0: np.ndarray
    gamma: float = 0.9
    accept_target: float = 0.234
    burn_in: int = None

    def __post_init__(self):
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        dim = len(self.theta0)
        s0 = np.asarray(self.sigma0, dtype=float)
        if s0.ndim == 0:
            s0 = np.eye(dim) * float(s0)
        elif s0.ndim == 1:
            s0 = np.diag(s0)
        object.__setattr__(self, "sigma0", s0)
        if self.n_iters < 1:
            raise ValueError("n_iters must be at least 1")
        if s0.shape != (dim, dim):
            raise ValueError("sigma0 must be scalar, length-dim, or (dim, dim)")
        if (np.diag(s0) <= 0).any():
            raise ValueError("sigma0 must have positive diagonal")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0.5, 1]")
        if not 0.0 < self.accept_target < 1.0:
            raise ValueError("accept_target must lie in (0, 1)")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.n_iters // 2)
        if not 0 <= self.burn_in < self.n_iters:
            raise ValueError("burn_in must lie in [0, n_iters)")


@dataclass
class Chain:
    """PMMH output: samples (M, k), energies (M,), acceptance flags (M,)."""

    names: tuple
    samples: np.ndarray
    energies: np.ndarray
    accepted: np.ndarray
    proposal_factor: np.ndarray
    burn_in: int = 0
    theta0: np.ndarray = None
    energy0: float = None

    @property
    def n_iters(self):
        return len(self.samples)

    @property
    def acceptance_rate(self):
        return float(np.mean(self.accepted))


def energy(theta, obs: Trace, space: ParameterSpace, p: MorrisLecarParams,
           nc: NoiseConfig, s: SynapticParams = None, seed=0, strict=False,
           **pf_options):
    """Negative log prior plus negative log marginal likelihood at theta.

    Returns ``(value, filter_output)``; out-of-bounds thetas and filter
    blow-ups yield ``(inf, None)`` without running (or finishing) the filter.
    With no observations (``obs`` is None or empty) the likelihood term drops
    and the energy is the negative log prior alone.
    With ``strict=True`` invalid parameter values raise instead of mapping to
    infinite energy (useful for vetting a chain's starting point).
    ``pf_options`` are forwarded to :func:`~neurosmc.filtering.run_filter`
    (n_particles, resample_policy, x0_mean, ...).
    """
    lp = space.log_prior(theta)
    if not np.isfinite(lp):
        return math.inf, None
    if obs is None or obs.n_steps == 0:
        return -lp, None
    try:
        p_mod, nc_mod, s_mod, sigma_v = apply_parameters(space, theta, p, nc, s)
        out = run_filter(obs, p_mod, nc_mod, s=s_mod, seed=seed,
                         sigma_v=sigma_v, **pf_options)
    except FilterDivergence:
        return math.inf, None
    except ValueError:
        if strict:
            raise
        return math.inf, None
    value = -lp - out.log_likelihood
    if not np.isfinite(value):
        return math.inf, None
    return value, out


def ram_step(theta, s_factor, energy_prev, j, energy_fn, rng,
             gamma=0.9, accept_target=0.234):
    """One robust-adaptive-Metropolis iteration.

    Draws a* ~ N(0, I), proposes theta + S a*, accepts with probability
    min(1, exp(energy_prev - energy_new)), then updates the factor so that
    S S^T moves toward the target acceptance rate:

        S' S'^T = S (I + eta_j (alpha - target) a a^T / |a|^2) S^T,
        eta_j = j^-gamma.

    The update is symmetrized before the Cholesky factorization; if the
    factorization still fails the previous factor is kept and a warning is
    logged.  Returns ``(theta, s_factor, energy, accepted, aux)`` where
    ``aux`` carries whatever payload ``energy_fn`` returned alongside the
    energy value.
    """
    dim = len(theta)
    a = rng.standard_normal(dim)
    proposal = theta + s_factor @ a
    energy_new, aux = energy_fn(proposal)

    if math.isinf(energy_new):
        alpha = 0.0
    elif math.isinf(energy_prev):
        alpha = 1.0
    else:
        alpha = min(1.0, math.exp(min(energy_prev - energy_new, 0.0)))
    accepted = rng.random() < alpha

    eta = j ** (-gamma)
    norm2 = float(a @ a)
    if norm2 > 0.0:
        update = np.eye(dim) + eta * (alpha - accept_target) * np.outer(a, a) / norm2
        candidate = s_factor @ update @ s_factor.T
        candidate = 0.5 * (candidate + candidate.T)
        try:
            s_factor = np.linalg.cholesky(candidate)
        except np.linalg.LinAlgError:
            logger.warning("proposal adaptation produced a non-PD matrix at "
                           "iteration %d; keeping previous factor", j)

    if accepted:
        return np.asarray(proposal, dtype=float), s_factor, energy_new, True, aux
    return np.asarray(theta, dtype=float), s_factor, energy_prev, False, None


def run_pmcmc(obs: Trace, space: ParameterSpace, cfg: McmcConfig,
              p: MorrisLecarParams, nc: NoiseConfig, s: SynapticParams = None,
              seed=0, **pf_options):
    """Run a PMMH chain; returns ``(chain, filter_output)``.

    Every iteration j re-estimates the proposal's marginal likelihood with a
    fresh particle-filter seed derived from ``(seed, j)``, so replaying the
    chain is deterministic.  The returned filter output belongs to the last
    accepted parameter point.  The initial energy is evaluated at
    ``cfg.theta0`` (which must have finite energy) before the first
    iteration.
    """
    if cfg.theta0.shape != (space.dim,):
        raise ValueError("theta0 must match the parameter space dimension")
    rng = np.random.default_rng(derive_seed(seed, 0))

    def pf_seed(j):
        return derive_seed(seed, 1000, j)

    theta = cfg.theta0.copy()
    energy_prev, retained = energy(theta, obs, space, p, nc, s,
                                   seed=pf_seed(0), strict=True, **pf_options)
    if math.isinf(energy_prev):
        raise ValueError("theta0 has infinite energy; start inside the prior box")
    energy0 = energy_prev

    dim = space.dim
    samples = np.empty((cfg.n_iters, dim))
    energies = np.empty(cfg.n_iters)
    accepted = np.zeros(cfg.n_iters, dtype=bool)
    s_factor = cfg.sigma0.copy()

    for j in range(1, cfg.n_iters + 1):
        fn = lambda th: energy(th, obs, space, p, nc, s, seed=pf_seed(j), **pf_options)
        theta, s_factor, energy_prev, acc, aux = ram_step(
            theta, s_factor, energy_prev, j, fn, rng,
            gamma=cfg.gamma, accept_target=cfg.accept_target)
        if acc and aux is not None:
            retained = aux
        samples[j - 1] = theta
        energies[j - 1] = energy_prev
        accepted[j - 1] = acc

    chain = Chain(names=space.names, samples=samples, energies=energies,
                  accepted=accepted, proposal_factor=s_factor,
                  burn_in=cfg.burn_in, theta0=cfg.theta0.copy(), energy0=energy0)
    return chain, retained


def point_estimates(chain: Chain, burn_in=None):
    """Posterior-mean (after burn-in) and final-sample estimates of theta."""
    burn = chain.burn_in if burn_in is None else burn_in
    if not 0 <= burn < chain.n_iters:
        raise ValueError("burn_in must lie in [0, n_iters)")
    kept = chain.samples[burn:]
    return kept.mean(axis=0), chain.samples[-1].copy()
