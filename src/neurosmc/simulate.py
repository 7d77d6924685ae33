"""Ground-truth trajectory generation and the voltage observation model."""

from dataclasses import dataclass, replace
import math

import numpy as np

from .model import (
    MorrisLecarParams,
    NoiseConfig,
    NumericalDivergence,
    SynapticParams,
    clamp_state,
    ml_transition2,
    ml_transition4,
    process_noise_cov4,
    resting_state,
)
from .seeding import as_seed_sequence, derive_seed

__all__ = ["Trace", "simulate_batch", "simulate_truth", "observe", "snr_db"]


@dataclass(frozen=True)
class Trace:
    """A simulated (or loaded) trajectory with optional observations.

    ``states`` holds x_1..x_T row-wise (shape ``(T, d)``, d = 2 or 4) and
    ``x0`` the initial condition the first step departed from.
    ``applied_current`` is the realized current of each step, including its
    disturbance.  ``observations`` is ``None`` until :func:`observe` fills it
    with noisy voltage samples; ``sigma_y`` records the noise level used.
    """

    t_s: float
    states: np.ndarray
    applied_current: np.ndarray
    x0: np.ndarray = None
    observations: np.ndarray = None
    sigma_y: float = None
    seed: int = None

    def __post_init__(self):
        if len(self.states) != len(self.applied_current):
            raise ValueError("states and applied_current must have equal length")
        if self.observations is not None and len(self.observations) != len(self.states):
            raise ValueError("observations must match states in length")

    @property
    def n_steps(self):
        return len(self.states)

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def times_ms(self):
        return self.t_s * np.arange(1, self.n_steps + 1)


def simulate_batch(p: MorrisLecarParams, nc: NoiseConfig, n_steps, seeds,
                   s: SynapticParams = None, x0=None):
    """Simulate one trajectory per seed, all advanced together.

    Each step applies :func:`~neurosmc.model.ml_transition2` (or
    ``ml_transition4`` with synaptic parameters) at the realized current,
    adds the white gating disturbance and the OU conductance increments,
    then clamps the state.  The leak disturbance nu_g enters the current as
    ``i_k - nu_g * (v - e_l)``, i.e. as a per-step offset of g_l.

    Trajectory ``b`` draws its current, leak, gating, g_e and g_i
    disturbances from child streams 0..4 of ``seeds[b]``, so it equals
    ``simulate_truth(..., seed=seeds[b])`` whatever else is in the batch.

    ``x0`` is the shared initial state, by default the zero-current rest
    with the conductances at their means.  Returns ``(states,
    applied_current, x0)`` of shapes (B, T, d), (B, T) and (d,).  Raises
    :class:`NumericalDivergence` naming the first step at which any
    trajectory leaves the finite range (and, in a batch, the trajectory).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if x0 is None:
        rest = resting_state(p, i_app=0.0)
        x0 = rest if s is None else np.concatenate([rest, [s.g_e0, s.g_i0]])
    x0 = np.asarray(x0, dtype=float)
    dim = 2 if s is None else 4
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")
    n_batch = len(seeds)
    # stream 0 is the applied current; noise holds the leak, gating and
    # (four-state) conductance disturbances, streams 1..dim
    current = np.empty((n_batch, n_steps))
    noise = np.empty((dim, n_batch, n_steps))
    for b, seed in enumerate(seeds):
        ss = as_seed_sequence(seed)
        for j, rows in enumerate([current, *noise]):
            np.random.default_rng(derive_seed(ss, j)).standard_normal(out=rows[b])
    current *= nc.sigma_i_app
    current += nc.i_o
    scales = [nc.sigma_g_l, nc.sigma_n]
    if s is None:
        transition = lambda x, i_k: ml_transition2(x, i_k, p, nc.t_s)
    else:
        transition = lambda x, i_k: ml_transition4(x, i_k, p, s, nc.t_s)
        scales += list(np.sqrt(process_noise_cov4(x0[0], nc, p, s)[2:]))
    noise *= np.reshape(scales, (dim, 1, 1))

    states = np.empty((n_batch, n_steps, dim))
    x = np.tile(x0, (n_batch, 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            i_k = current[:, k] - noise[0, :, k] * (x[:, 0] - p.e_l)
            x = transition(x, i_k)
            x[:, 1:] += noise[1:, :, k].T
            if not np.isfinite(x).all():
                b = int(np.argmin(np.isfinite(x).all(axis=1)))
                raise NumericalDivergence(k + 1, None if n_batch == 1 else
                                          f"trajectory {b}: state became "
                                          f"non-finite at step {k + 1}")
            states[:, k] = clamp_state(x)
    return states, current, x0


def simulate_truth(p: MorrisLecarParams, nc: NoiseConfig, n_steps,
                   s: SynapticParams = None, x0=None, seed=0):
    """Simulate ``n_steps`` of the stochastic membrane dynamics.

    Each step draws fresh disturbances: additive white noise on the applied
    current (``sigma_i_app``), on the leak conductance (``sigma_g_l``) and on
    the gating variable (``sigma_n``); with synaptic parameters, the two OU
    conductances get their Euler-Maruyama increments as well.  The gating
    variable is clipped to [0, 1] and conductances to [0, inf) after every
    step.  This is the one-trajectory case of :func:`simulate_batch`.

    ``x0`` defaults to the zero-current resting state (with the conductances
    started at their means in the four-state case).  Raises
    :class:`NumericalDivergence` if the state leaves the finite range.
    """
    states, current, x0 = simulate_batch(p, nc, n_steps, [seed], s=s, x0=x0)
    return Trace(t_s=nc.t_s, states=states[0], applied_current=current[0],
                 x0=x0, seed=seed)


def observe(trace: Trace, sigma_y, seed=0):
    """Return a copy of ``trace`` with noisy voltage observations attached.

    y_k = v_k + sigma_y * eps_k with iid standard-normal eps.
    """
    if sigma_y < 0:
        raise ValueError("sigma_y must be nonnegative")
    rng = np.random.default_rng(as_seed_sequence(seed))
    y = trace.states[:, 0] + sigma_y * rng.standard_normal(trace.n_steps)
    return replace(trace, observations=y, sigma_y=float(sigma_y))


def snr_db(trace: Trace):
    """Signal-to-noise ratio 10*log10(mean(v^2)/sigma_y^2) of a trace, in dB.

    Infinite when sigma_y is zero; raises if the trace carries no
    observation-noise level.
    """
    if trace.sigma_y is None:
        raise ValueError("trace has no recorded sigma_y; call observe() first")
    if trace.sigma_y == 0.0:
        return math.inf
    power = float(np.mean(trace.states[:, 0] ** 2))
    return 10.0 * math.log10(power / trace.sigma_y**2)
