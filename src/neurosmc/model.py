"""Morris-Lecar membrane dynamics with optional stochastic synaptic drive.

The discrete-time transition maps here are forward-Euler steps of the
conductance-based membrane equations.  All voltages are in mV, time in ms,
currents in uA/cm^2 and conductances in mS/cm^2.  State vectors are laid out
as ``(v, n)`` for the point-neuron model and ``(v, n, g_e, g_i)`` when the
excitatory/inhibitory conductances are tracked as states.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "MorrisLecarParams",
    "SynapticParams",
    "NoiseConfig",
    "NumericalDivergence",
    "m_inf",
    "n_inf",
    "tau_n",
    "ml_transition2",
    "ml_transition4",
    "jacobian2",
    "process_noise_cov2",
    "process_noise_cov4",
    "clamp_state",
    "resting_state",
    "ns_to_ms_per_cm2",
    "REFERENCE_AREA_UM2",
]

# Membrane area used to convert whole-cell conductances (nS) to specific
# conductances (mS/cm^2).  34636 um^2 is the soma area that makes a 20 nF
# whole-cell capacitance consistent with c_m = 20 uF/cm^2... kept fixed so the
# conversion is a documented constant rather than a per-run knob.
REFERENCE_AREA_UM2 = 34636.0


class NumericalDivergence(RuntimeError):
    """A trajectory or estimate left the representable range (nan/inf)."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"state became non-finite at step {step}")


def ns_to_ms_per_cm2(g_ns, area_um2=REFERENCE_AREA_UM2):
    """Convert a whole-cell conductance in nS to mS/cm^2 over ``area_um2``."""
    if area_um2 <= 0:
        raise ValueError("area_um2 must be positive")
    # 1 nS / (area um^2) = 1e-6 mS / (area * 1e-8 cm^2)
    return float(g_ns) * 100.0 / float(area_um2)


@dataclass(frozen=True)
class MorrisLecarParams:
    """Morris-Lecar membrane constants.

    Defaults are the standard Hopf-regime constants for a barnacle-muscle
    type-II cell: capacitance 20 uF/cm^2, calcium/potassium/leak reversal at
    +120/-84/-60 mV, and gating half-activations at v1/v3 with slopes v2/v4.
    """

    c_m: float = 20.0
    g_l: float = 2.0
    e_l: float = -60.0
    g_ca: float = 4.4
    e_ca: float = 120.0
    g_k: float = 8.0
    e_k: float = -84.0
    phi: float = 0.04
    v1: float = -1.2
    v2: float = 18.0
    v3: float = 2.0
    v4: float = 30.0

    def __post_init__(self):
        if self.c_m <= 0:
            raise ValueError("c_m must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.v2 == 0 or self.v4 == 0:
            raise ValueError("gating slopes v2 and v4 must be nonzero")
        for name in ("g_l", "g_ca", "g_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def replace(self, **changes):
        return replace(self, **changes)


@dataclass(frozen=True)
class SynapticParams:
    """Ornstein-Uhlenbeck parameters of the excitatory/inhibitory drive.

    ``tau_*`` are correlation times (ms), ``g_*0`` the mean conductances and
    ``sigma_*`` the stationary standard deviations (mS/cm^2).  Reversal
    potentials default to 0 mV (excitatory) and -80 mV (inhibitory).
    """

    tau_e: float
    g_e0: float
    sigma_e: float
    tau_i: float
    g_i0: float
    sigma_i: float
    e_e: float = 0.0
    e_i: float = -80.0

    def __post_init__(self):
        if self.tau_e <= 0 or self.tau_i <= 0:
            raise ValueError("correlation times tau_e, tau_i must be positive")
        if self.sigma_e < 0 or self.sigma_i < 0:
            raise ValueError("sigma_e and sigma_i must be nonnegative")
        if self.g_e0 < 0 or self.g_i0 < 0:
            raise ValueError("mean conductances g_e0, g_i0 must be nonnegative")

    def replace(self, **changes):
        return replace(self, **changes)


@dataclass(frozen=True)
class NoiseConfig:
    """Sampling interval, drive statistics and disturbance levels.

    ``i_o`` is the nominal applied current; ``sigma_i_app`` and ``sigma_g_l``
    are the per-step standard deviations of the white disturbances on the
    applied current and on the leak conductance.  ``sigma_n`` perturbs the
    gating variable additively and ``sigma_y`` is the voltage measurement
    noise.  ``t_s`` is the sampling interval in ms.
    """

    t_s: float = 0.25
    i_o: float = 110.0
    sigma_i_app: float = 0.0
    sigma_g_l: float = 0.0
    sigma_n: float = 0.0
    sigma_y: float = 1.0

    def __post_init__(self):
        if self.t_s <= 0:
            raise ValueError("t_s must be positive")
        for name in ("sigma_i_app", "sigma_g_l", "sigma_n", "sigma_y"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def replace(self, **changes):
        return replace(self, **changes)


def m_inf(v, p: MorrisLecarParams):
    """Steady-state calcium activation, 0.5*(1 + tanh((v - v1)/v2))."""
    return 0.5 * (1.0 + np.tanh((v - p.v1) / p.v2))


def n_inf(v, p: MorrisLecarParams):
    """Steady-state potassium activation, 0.5*(1 + tanh((v - v3)/v4))."""
    return 0.5 * (1.0 + np.tanh((v - p.v3) / p.v4))


def tau_n(v, p: MorrisLecarParams):
    """Voltage-dependent potassium time constant, 1/cosh((v - v3)/(2*v4))."""
    return 1.0 / np.cosh((v - p.v3) / (2.0 * p.v4))


def _membrane_current(v, n, p: MorrisLecarParams):
    """Total ionic current (leak + calcium + potassium) at (v, n)."""
    return (
        p.g_l * (v - p.e_l)
        + p.g_ca * m_inf(v, p) * (v - p.e_ca)
        + p.g_k * n * (v - p.e_k)
    )


def ml_transition2(x, i_app, p: MorrisLecarParams, t_s):
    """One Euler step of the deterministic two-state map.

    Parameters
    ----------
    x : array_like, shape (..., 2)
        Current state(s) ``(v, n)``.  Any number of leading axes is allowed;
        the map is applied elementwise over them.
    i_app : float or array broadcastable to ``x[..., 0]``
        Applied current for this step.
    t_s : float
        Step length in ms.

    Returns
    -------
    ndarray, shape (..., 2)
    """
    x = np.asarray(x, dtype=float)
    v = x[..., 0]
    n = x[..., 1]
    v_next = v - (t_s / p.c_m) * (_membrane_current(v, n, p) - i_app)
    n_next = n + t_s * p.phi * (n_inf(v, p) - n) / tau_n(v, p)
    return np.stack([v_next, n_next], axis=-1)


def ml_transition4(x, i_app, p: MorrisLecarParams, s: SynapticParams, t_s):
    """One Euler step of the four-state map with synaptic conductances.

    The conductance coordinates follow their deterministic OU drift; the
    voltage sees the additional synaptic current g_e*(v - e_e) + g_i*(v - e_i).
    """
    x = np.asarray(x, dtype=float)
    v = x[..., 0]
    n = x[..., 1]
    g_e = x[..., 2]
    g_i = x[..., 3]
    i_total = (
        _membrane_current(v, n, p)
        + g_e * (v - s.e_e)
        + g_i * (v - s.e_i)
    )
    v_next = v - (t_s / p.c_m) * (i_total - i_app)
    n_next = n + t_s * p.phi * (n_inf(v, p) - n) / tau_n(v, p)
    g_e_next = g_e - (t_s / s.tau_e) * (g_e - s.g_e0)
    g_i_next = g_i - (t_s / s.tau_i) * (g_i - s.g_i0)
    return np.stack([v_next, n_next, g_e_next, g_i_next], axis=-1)


def jacobian2(x, p: MorrisLecarParams, t_s):
    """Jacobian of :func:`ml_transition2` with respect to the state.

    Parameters
    ----------
    x : array_like, shape (..., 2)

    Returns
    -------
    ndarray, shape (..., 2, 2)
    """
    x = np.asarray(x, dtype=float)
    v = x[..., 0]
    n = x[..., 1]

    u1 = (v - p.v1) / p.v2
    m = 0.5 * (1.0 + np.tanh(u1))
    dm_dv = 1.0 / (2.0 * p.v2 * np.cosh(u1) ** 2)

    u3 = (v - p.v3) / p.v4
    ninf = 0.5 * (1.0 + np.tanh(u3))
    dninf_dv = 1.0 / (2.0 * p.v4 * np.cosh(u3) ** 2)

    half = (v - p.v3) / (2.0 * p.v4)
    taun = 1.0 / np.cosh(half)
    # d(tau_n)/dv = -sinh(half) / (2*v4*cosh(half)^2)
    dtaun_dv = -np.sinh(half) / (2.0 * p.v4 * np.cosh(half) ** 2)

    di_dv = p.g_l + p.g_ca * (dm_dv * (v - p.e_ca) + m) + p.g_k * n
    j11 = 1.0 - (t_s / p.c_m) * di_dv
    j12 = -(t_s / p.c_m) * p.g_k * (v - p.e_k)
    j21 = t_s * p.phi * (dninf_dv * taun - (ninf - n) * dtaun_dv) / taun**2
    j22 = 1.0 - t_s * p.phi / taun

    out = np.empty(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = j11
    out[..., 0, 1] = j12
    out[..., 1, 0] = j21
    out[..., 1, 1] = j22
    return out


def process_noise_cov2(v_hat_prev, nc: NoiseConfig, p: MorrisLecarParams):
    """Diagonal process-noise covariance of the two-state map.

    The voltage variance collects the current and leak disturbances scaled
    through one Euler step, linearized around the previous voltage estimate:

        sigma_v^2 = (t_s/c_m)^2 * (sigma_i_app^2 + (v_hat - e_l)^2 * sigma_g_l^2)

    Returns the length-2 diagonal ``[sigma_v^2, sigma_n^2]``.
    """
    scale = nc.t_s / p.c_m
    sigma_v2 = scale * scale * (
        nc.sigma_i_app**2 + (v_hat_prev - p.e_l) ** 2 * nc.sigma_g_l**2
    )
    return np.array([sigma_v2, nc.sigma_n**2])


def process_noise_cov4(v_hat_prev, nc: NoiseConfig, p: MorrisLecarParams,
                       s: SynapticParams):
    """Diagonal process-noise covariance of the four-state map.

    The conductance entries are the Euler-Maruyama per-step variances
    2*sigma^2*t_s/tau of the OU drives.
    """
    base = process_noise_cov2(v_hat_prev, nc, p)
    var_e = 2.0 * s.sigma_e**2 * nc.t_s / s.tau_e
    var_i = 2.0 * s.sigma_i**2 * nc.t_s / s.tau_i
    return np.concatenate([base, [var_e, var_i]])


def clamp_state(x):
    """Project states onto their physical ranges, in place.

    The gating variable is clipped to [0, 1] and, when present, the synaptic
    conductances to [0, inf).  ``x`` has shape (..., 2) or (..., 4).
    """
    x = np.asarray(x)
    np.clip(x[..., 1], 0.0, 1.0, out=x[..., 1])
    if x.shape[-1] == 4:
        np.clip(x[..., 2], 0.0, None, out=x[..., 2])
        np.clip(x[..., 3], 0.0, None, out=x[..., 3])
    return x


def resting_state(p: MorrisLecarParams, i_app=0.0, v_bracket=(-90.0, 40.0)):
    """Equilibrium ``(v, n)`` of the continuous dynamics at fixed current.

    Solves the current-balance equation with n at its steady state.  Raises
    ``ValueError`` when no equilibrium lies inside ``v_bracket``.
    """

    def balance(v):
        return i_app - _membrane_current(v, float(n_inf(v, p)), p)

    lo, hi = v_bracket
    if balance(lo) * balance(hi) > 0:
        raise ValueError("no equilibrium found in the given voltage bracket")
    v_star = brentq(balance, lo, hi, xtol=1e-12)
    return np.array([v_star, float(n_inf(v_star, p))])
